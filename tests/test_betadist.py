import ast
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

import skbeta
from skbeta import betadist
from skbeta.betadist import (
    BetaCalibration,
    BetaParams,
    beta_cdf,
    beta_function,
    beta_kurtosis,
    beta_pdf,
    beta_skewness,
    calibrate_from_sk,
    cdf_curve,
    cdf_curve_csv,
    help_variable,
    ln_gamma,
    urn_limit_pmf,
    urn_limit_pmfs,
    yule_simon_pmf,
    _ln_beta,
)
from skbeta.errors import (
    InfeasibleMomentPairError,
    InternalCheckError,
    NonNormalizableError,
    NotBetaRepresentableError,
)

shapes = st.floats(min_value=0.05, max_value=50.0, allow_nan=False)

GRID = (0.5, 1.0, 2.0, 5.0, 10.0)


def quad_central_moment(a: float, b: float, j: int, mean: float) -> float:
    # adaptive quadrature with the algebraic endpoint weight x^(a-1) (1-x)^(b-1)
    norm = special.beta(a, b)
    val, _ = integrate.quad(
        lambda x: (x - mean) ** j / norm,
        0.0,
        1.0,
        weight="alg",
        wvar=(a - 1.0, b - 1.0),
        epsabs=1e-13,
        epsrel=1e-13,
    )
    return val


def quad_shape_moments(a: float, b: float) -> tuple[float, float]:
    mean = quad_central_moment(a, b, 1, 0.0)
    mu2 = quad_central_moment(a, b, 2, mean)
    mu3 = quad_central_moment(a, b, 3, mean)
    mu4 = quad_central_moment(a, b, 4, mean)
    return mu3 / mu2**1.5, mu4 / mu2**2


def limit_pmf_tail_mass(n: int, k0: int, a: float, b: float) -> float:
    # mass of B(k+a, b) / B(k0+a, b-1) beyond k = n, from the telescoping
    # identity sum_{k>=x} B(k+a, b) = B(x+a, b-1): B(n+1+a, b-1) / B(k0+a, b-1)
    return math.exp(
        (math.lgamma(n + 1 + a) + math.lgamma(b - 1) - math.lgamma(n + a + b))
        - (math.lgamma(k0 + a) + math.lgamma(b - 1) - math.lgamma(k0 + a + b - 1))
    )


def reference_contfrac(a: float, b: float, x: float, fpmin: float = 1e-300) -> float:
    """The incomplete-Beta continued fraction at one point: the modified
    Lentz loop that ``betadist._beta_contfrac`` runs on arrays of points,
    with ``fpmin`` its floor on |d| and |c| (``betadist._FPMIN``)."""
    max_iter = 10_000  # the cap of betadist._beta_contfrac
    eps = 1e-16
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < fpmin:
        d = fpmin
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise AssertionError(f"no convergence for a={a}, b={b}, x={x}")


def reference_cdf(x: float, a: float, b: float, fpmin: float = 1e-300) -> float:
    """I_x(a, b) one point at a time, on the branch ``beta_cdf`` takes."""
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    front = math.exp(a * math.log(x) + b * math.log1p(-x) - _ln_beta(a, b))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * reference_contfrac(a, b, x, fpmin) / a
    return 1.0 - front * reference_contfrac(b, a, 1.0 - x, fpmin) / b


class TestLnGamma:
    def test_gamma_one(self):
        assert ln_gamma(1.0) == 0.0

    def test_factorial(self):
        assert ln_gamma(5.0) == pytest.approx(math.log(24), rel=1e-15)

    def test_half(self):
        assert ln_gamma(0.5) == pytest.approx(0.57236494292470008707, abs=1e-14)

    @pytest.mark.parametrize("x", [1e-3, 0.1, 1.0, 17.5, 1e3, 1e6])
    def test_against_scipy(self, x):
        assert ln_gamma(x) == pytest.approx(float(special.gammaln(x)), rel=1e-13, abs=1e-12)

    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5])
    def test_domain(self, x):
        with pytest.raises(ValueError):
            ln_gamma(x)


class TestBetaFunction:
    def test_uniform(self):
        assert beta_function(1.0, 1.0) == pytest.approx(1.0, rel=1e-15)

    def test_hand_ratio(self):
        assert beta_function(2.0, 3.0) == pytest.approx(1 / 12, rel=1e-13)

    @given(shapes, shapes)
    @settings(max_examples=200, deadline=None)
    def test_symmetry(self, a, b):
        assert beta_function(a, b) == pytest.approx(beta_function(b, a), rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            beta_function(0.0, 1.0)

    def test_large_argument(self):
        # B(a, 2) = 1 / (a (a + 1)); a sum of direct lgamma values is off by 1.6e-9 here
        a = 1e6
        assert beta_function(a, 2.0) * a * (a + 1.0) == pytest.approx(1.0, rel=1e-13)


class TestBetaPdf:
    def test_uniform(self):
        assert beta_pdf(0.5, BetaParams(1, 1)) == pytest.approx(1.0)

    def test_hand_value(self):
        assert beta_pdf(0.5, BetaParams(2, 2)) == pytest.approx(1.5, rel=1e-13)

    def test_outside_is_zero(self):
        p = BetaParams(2, 2)
        assert beta_pdf(-0.1, p) == 0.0
        assert beta_pdf(1.1, p) == 0.0

    def test_endpoint_conventions(self):
        assert beta_pdf(0.0, BetaParams(0.5, 1.0)) == math.inf
        assert beta_pdf(0.0, BetaParams(1.0, 3.0)) == 3.0
        assert beta_pdf(0.0, BetaParams(2.0, 2.0)) == 0.0
        assert beta_pdf(1.0, BetaParams(1.0, 0.5)) == math.inf
        assert beta_pdf(1.0, BetaParams(2.5, 1.0)) == 2.5
        assert beta_pdf(1.0, BetaParams(2.5, 3.0)) == 0.0

    @pytest.mark.parametrize("a", GRID)
    @pytest.mark.parametrize("b", GRID)
    def test_integrates_to_one(self, a, b):
        # the algebraic endpoint weight carries x^(a-1) (1-x)^(b-1), so
        # integrating the remaining factor 1/B(a,b) integrates the pdf
        norm = special.beta(a, b)
        val, _ = integrate.quad(
            lambda x: 1.0 / norm,
            0.0,
            1.0,
            weight="alg",
            wvar=(a - 1.0, b - 1.0),
            epsabs=1e-13,
            epsrel=1e-13,
        )
        assert val == pytest.approx(1.0, abs=1e-10)
        for x in (0.2, 0.5, 0.9):
            expected = x ** (a - 1) * (1 - x) ** (b - 1) / norm
            assert beta_pdf(x, BetaParams(a, b)) == pytest.approx(expected, rel=1e-12)


class TestBetaCdf:
    def test_uniform_identity(self):
        assert beta_cdf(0.3, BetaParams(1, 1)) == pytest.approx(0.3, abs=1e-14)

    def test_symmetric_half(self):
        assert beta_cdf(0.5, BetaParams(2, 2)) == pytest.approx(0.5, abs=1e-13)

    def test_closed_form_one_two(self):
        p = BetaParams(1, 2)
        for x in (0.0, 0.1, 0.25, 0.5, 0.77, 1.0):
            assert beta_cdf(x, p) == pytest.approx(1 - (1 - x) ** 2, abs=1e-12)

    def test_exact_endpoints(self):
        p = BetaParams(3.3, 0.7)
        assert beta_cdf(0.0, p) == 0.0
        assert beta_cdf(1.0, p) == 1.0

    def test_curve_needs_two_points(self):
        with pytest.raises(ValueError, match="at least 2 points"):
            cdf_curve(BetaParams(1, 1), 1)

    def test_domain(self):
        with pytest.raises(ValueError):
            beta_cdf(-0.01, BetaParams(1, 1))
        with pytest.raises(ValueError):
            beta_cdf(1.01, BetaParams(1, 1))

    @pytest.mark.parametrize("a", GRID)
    @pytest.mark.parametrize("b", GRID)
    def test_against_scipy(self, a, b):
        for x in (0.01, 0.2, 0.5, 0.8, 0.99):
            assert beta_cdf(x, BetaParams(a, b)) == pytest.approx(
                float(special.betainc(a, b, x)), abs=1e-10
            )

    def test_extreme_shapes_stay_within_contract(self):
        for a in (0.05, 0.5, 50.0, 200.0):
            for b in (0.05, 0.5, 50.0, 200.0):
                for x in (1e-6, 0.01, 0.5, 0.99, 1 - 1e-6):
                    assert beta_cdf(x, BetaParams(a, b)) == pytest.approx(
                        float(special.betainc(a, b, x)), abs=1e-10
                    )

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
        shapes,
        shapes,
    )
    @settings(max_examples=200, deadline=None)
    def test_nondecreasing(self, x1, x2, a, b):
        lo, hi = min(x1, x2), max(x1, x2)
        p = BetaParams(a, b)
        assert beta_cdf(lo, p) <= beta_cdf(hi, p) + 1e-12


class TestBetaShapeMoments:
    @pytest.mark.parametrize("a", GRID)
    def test_symmetric_skew_is_zero(self, a):
        assert beta_skewness(BetaParams(a, a)) == 0.0

    def test_skew_hand_value(self):
        assert beta_skewness(BetaParams(1, 2)) == pytest.approx(
            4 / (5 * math.sqrt(2)), rel=1e-14
        )

    @given(shapes, shapes)
    @settings(max_examples=200, deadline=None)
    def test_skew_antisymmetry(self, a, b):
        assert beta_skewness(BetaParams(a, b)) == pytest.approx(
            -beta_skewness(BetaParams(b, a)), rel=1e-12, abs=1e-12
        )

    def test_kurtosis_uniform(self):
        assert beta_kurtosis(BetaParams(1, 1)) == pytest.approx(1.8, rel=1e-14)

    def test_kurtosis_two_two(self):
        assert beta_kurtosis(BetaParams(2, 2)) == pytest.approx(15 / 7, rel=1e-14)

    def test_normal_limit(self):
        assert beta_kurtosis(BetaParams(1e4, 1e4)) == pytest.approx(3.0, abs=1e-3)

    @pytest.mark.parametrize("a", GRID)
    @pytest.mark.parametrize("b", GRID)
    def test_quadrature_oracle(self, a, b):
        s_q, k_q = quad_shape_moments(a, b)
        assert beta_skewness(BetaParams(a, b)) == pytest.approx(s_q, rel=1e-8, abs=1e-8)
        assert beta_kurtosis(BetaParams(a, b)) == pytest.approx(k_q, rel=1e-8)


class TestHelpVariable:
    def test_uniform_pair(self):
        assert help_variable(0.0, 1.8) == pytest.approx(2.0, rel=1e-14)

    def test_chained_with_moments(self):
        s = beta_skewness(BetaParams(1, 2))
        k = beta_kurtosis(BetaParams(1, 2))
        assert k == pytest.approx(2.4, rel=1e-14)
        assert help_variable(s, k) == pytest.approx(3.0, rel=1e-12)

    def test_normal_limit_is_pole(self):
        with pytest.raises(NotBetaRepresentableError):
            help_variable(0.0, 3.0)

    def test_squares_past_the_float_range(self):
        """Where 3 S^2 or 2 K overflows, rho is still the exact ratio rounded,
        and a pole names the caller's (S, K) and the denominator unscaled."""
        assert help_variable(1e154, 1.2e308) == 1.9999999999999973
        with pytest.raises(NotBetaRepresentableError) as ei:
            help_variable(1e154, 1.7e308)
        assert str(ei.value) == (
            "help variable undefined: denominator 6 + 3 S^2 - 2 K = -3.9999999999999945e+307 <= 0 "
            "for (S, K) = (1e+154, 1.7e+308)"
        )
        with pytest.raises(NotBetaRepresentableError) as ei:
            help_variable(0.0, 1e308)  # the denominator unscaled overflows
        assert str(ei.value).endswith(" = -inf <= 0 for (S, K) = (0.0, 1e+308)")

    @given(shapes, shapes)
    @settings(max_examples=200, deadline=None)
    def test_equals_shape_sum(self, a, b):
        s = beta_skewness(BetaParams(a, b))
        k = beta_kurtosis(BetaParams(a, b))
        assert help_variable(s, k) == pytest.approx(a + b, rel=1e-9, abs=1e-9)


class TestCalibration:
    def test_hand_case(self):
        cal = calibrate_from_sk(beta_skewness(BetaParams(1, 2)), 2.4)
        assert cal.selected.a == pytest.approx(1.0, abs=1e-9)
        assert cal.selected.b == pytest.approx(2.0, abs=1e-9)
        assert cal.rho == pytest.approx(3.0, abs=1e-12)
        assert cal.ab_product == pytest.approx(2.0, abs=1e-12)
        assert cal.roots == pytest.approx((1.0, 2.0), abs=1e-9)

    def test_uniform_case(self):
        cal = calibrate_from_sk(0.0, 1.8)
        assert cal.selected.a == pytest.approx(1.0, abs=1e-12)
        assert cal.selected.b == pytest.approx(1.0, abs=1e-12)

    def test_negative_skew_selects_larger_a(self):
        s = beta_skewness(BetaParams(2, 1))
        k = beta_kurtosis(BetaParams(2, 1))
        cal = calibrate_from_sk(s, k)
        assert cal.selected.a == pytest.approx(2.0, abs=1e-9)
        assert cal.selected.b == pytest.approx(1.0, abs=1e-9)

    def test_reference_pairs_roundtrip(self):
        for a, b, rho in ((0.7556, 4.9668, 5.7224), (0.8493, 5.0623, 5.9116)):
            assert round(a + b, 4) == rho
            s = beta_skewness(BetaParams(a, b))
            k = beta_kurtosis(BetaParams(a, b))
            cal = calibrate_from_sk(s, k)
            assert cal.selected.a == pytest.approx(a, abs=1e-6)
            assert cal.selected.b == pytest.approx(b, abs=1e-6)
            assert cal.rho == pytest.approx(rho, abs=1e-9)

    def test_selected_sum_and_product_consistency(self):
        cal = calibrate_from_sk(0.3, 2.2)
        assert cal.selected.a + cal.selected.b == pytest.approx(cal.rho, abs=1e-9)
        assert cal.selected.a * cal.selected.b == pytest.approx(cal.ab_product, abs=1e-9)

    def test_infeasible_negative_rho(self):
        with pytest.raises(InfeasibleMomentPairError) as ei:
            calibrate_from_sk(0.87472, 1.6629)
        assert ei.value.rho == pytest.approx(-0.1234, abs=1e-4)

    def test_shape_product_that_is_not_positive(self):
        with pytest.raises(InfeasibleMomentPairError) as ei:
            calibrate_from_sk(1e153, 1.0000000000166667e306)
        assert str(ei.value).startswith("shape product ab = 0.0 is not positive ")
        assert ei.value.rho == pytest.approx(1e-10, rel=1e-6) and ei.value.ab == 0.0

    def test_pair_whose_squares_overflow(self):
        # 3 S^2 and 2 K overflow; 6 + 3 S^2 - 2 K was inf - inf
        cal = calibrate_from_sk(1e154, 1.2e308)
        assert cal.selected == BetaParams(1.4999999999999984e-308, 1.9999999999999973)

    def test_round_trip_that_does_not_close(self):
        with pytest.raises(InfeasibleMomentPairError) as ei:
            calibrate_from_sk(5.396473938132609e151, 2.912193096546476e303)
        assert str(ei.value).startswith("inversion did not close ")
        assert ei.value.rho == pytest.approx(1.071942742910332e-10, rel=1e-12)
        assert ei.value.ab == 5e-324  # the roots' product underflows to the least subnormal

    def test_pole_raises_not_representable(self):
        with pytest.raises(NotBetaRepresentableError):
            calibrate_from_sk(0.0, 3.5)

    @pytest.mark.parametrize("a", GRID)
    @pytest.mark.parametrize("b", GRID)
    def test_grid_roundtrip(self, a, b):
        s = beta_skewness(BetaParams(a, b))
        k = beta_kurtosis(BetaParams(a, b))
        cal = calibrate_from_sk(s, k)
        assert cal.selected.a == pytest.approx(a, abs=1e-6)
        assert cal.selected.b == pytest.approx(b, abs=1e-6)

    @pytest.mark.parametrize(
        "a, b, s, k",
        [
            (1e-4, 1e4, 199.97000274961258, 59979.00599838043),
            (1e-5, 1e5, 632.4460452876567, 599979.0005999837),
        ],
    )
    def test_extreme_pair(self, a, b, s, k):
        # (s, k) is the float skewness and kurtosis of Beta(a, b).  The small
        # root is ab / root_hi: rho (1 - sqrt(disc)) / 2 cancels here and
        # failed the round trip.  b follows rho = 6 (K - S^2 - 1) / (6 + 3 S^2
        # - 2 K), whose denominator (~12) is a difference of terms near 3 S^2,
        # so rounding S and K alone moves b by up to ~6e-12 relative.
        cal = calibrate_from_sk(s, k)
        assert cal.selected.a == pytest.approx(a, rel=1e-12)
        assert cal.selected.b == pytest.approx(b, rel=1e-10)
        assert beta_skewness(cal.selected) == pytest.approx(s, rel=1e-12)
        assert beta_kurtosis(cal.selected) == pytest.approx(k, rel=1e-12)

    @pytest.mark.parametrize("delta", [1e-10, 1e-8, 1e-6, 1e-4])
    @pytest.mark.parametrize("b0", [0.5, 2.0, 50.0])
    @pytest.mark.parametrize("flip", [False, True])
    def test_near_symmetric_pair(self, b0, delta, flip):
        # b - a = b0 delta is what S carries; a root split through
        # 1 - 4ab/rho^2 cancelled it away (a = b at delta = 1e-10)
        a, b = (b0 * (1.0 + delta), b0) if flip else (b0, b0 * (1.0 + delta))
        p = BetaParams(a, b)
        sel = calibrate_from_sk(beta_skewness(p), beta_kurtosis(p)).selected
        assert (sel.a, sel.b) == (pytest.approx(a, rel=1e-13), pytest.approx(b, rel=1e-13))
        assert sel.b - sel.a == pytest.approx(b - a, rel=1e-5)

    def test_symmetric_pair_has_equal_roots(self):
        cal = calibrate_from_sk(0.0, 2.05)
        assert cal.roots[0] == cal.roots[1] == cal.selected.a == cal.selected.b == 0.5 * cal.rho

    def test_near_normal_pair(self):
        # the float skewness and kurtosis of Beta(255000, 256000)
        cal = calibrate_from_sk(1.0950354976675177e-05, 2.9999882585658235)
        assert cal.selected.a == pytest.approx(255000.0, rel=1e-10)
        assert cal.selected.b == pytest.approx(256000.0, rel=1e-10)

    def test_every_pair_closes_or_raises_a_typed_error(self):
        """Seeded (S, K) pairs over four regimes: |S| from 1e-300 to 1e154,
        near the Pearson bound K = 1 + S^2, near the Gamma line K = 3 +
        1.5 S^2, and ordinary pairs."""
        rng = np.random.default_rng(2018)
        n = 1000
        sign = rng.choice([-1.0, 1.0], n)
        s = sign * 10.0 ** rng.uniform(-300, 154, n)
        pairs = list(zip(s, 1.0 + s * s + rng.uniform(0, 1, n) * (2.0 + 0.5 * s * s)))
        s = sign * 10.0 ** rng.uniform(-8, 3, n)
        for bound, factor in ((1.0 + s * s, 1.0), (3.0 + 1.5 * s * s, -1.0)):
            eps = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-17, -1, n)
            pairs += zip(s, bound * (1.0 + factor * eps))
        pairs += zip(rng.uniform(-3, 3, n), rng.uniform(1, 20, n))
        closed = 0
        for s, k in pairs:
            try:
                cal = calibrate_from_sk(float(s), float(k))
            except (InfeasibleMomentPairError, NotBetaRepresentableError):
                continue
            closed += 1
            assert 0.0 < cal.selected.a < math.inf and 0.0 < cal.selected.b < math.inf
            assert beta_skewness(cal.selected) == pytest.approx(s, rel=1e-9, abs=1e-9)
        assert closed > len(pairs) // 3


class TestYuleSimon:
    def test_first_mass(self):
        assert yule_simon_pmf(1, 1.0) == pytest.approx(0.5, rel=1e-13)

    def test_second_mass_matches_harmonic_form(self):
        assert yule_simon_pmf(2, 1.0) == pytest.approx(1 / 6, rel=1e-12)

    def test_truncated_sum_near_one(self):
        total = math.fsum(yule_simon_pmf(k, 1.5) for k in range(1, 200_001))
        assert total == pytest.approx(1.0, abs=1e-4)

    def test_domain(self):
        with pytest.raises(ValueError):
            yule_simon_pmf(0, 1.0)
        with pytest.raises(ValueError):
            yule_simon_pmf(1, 0.0)
        with pytest.raises(TypeError):
            yule_simon_pmf(1.5, 1.0)

    @pytest.mark.parametrize("b", [0.5, 1.5, 3.0])
    def test_ratio_identity_at_large_k(self, b):
        k = 10**6
        ratio = yule_simon_pmf(k + 1, b) / yule_simon_pmf(k, b)
        assert ratio == pytest.approx(k / (k + b + 1.0), rel=1e-13)

    @pytest.mark.parametrize(
        "k,b,exact",
        [
            (1, 1e-10, 1e-10 / (1.0 + 1e-10)),  # b B(1, b + 1) = b / (b + 1)
            (3, 1e-12, 2e-12 / ((1.0 + 1e-12) * (2.0 + 1e-12) * (3.0 + 1e-12))),
            (1, 1e-17, 1e-17),  # b + 1 rounds to 1
        ],
    )
    def test_small_b(self, k, b, exact):
        assert yule_simon_pmf(k, b) == pytest.approx(exact, rel=1e-14, abs=0.0)


class TestUrnLimitPmf:
    def test_hand_value(self):
        assert urn_limit_pmf(1, 1, 1.0, 2.0) == pytest.approx(1 / 3, rel=1e-12)

    def test_zero_below_k0(self):
        assert urn_limit_pmf(0, 1, 0.0, 2.0) == 0.0

    def test_ratio_identity(self):
        k0, a, b = 1, 0.5, 2.5
        prev = urn_limit_pmf(k0, k0, a, b)
        for k in range(k0, 1001):
            cur = urn_limit_pmf(k + 1, k0, a, b)
            assert cur / prev == pytest.approx((k + a) / (k + a + b), abs=1e-12)
            prev = cur

    def test_non_normalizable(self):
        with pytest.raises(NonNormalizableError):
            urn_limit_pmf(5, 1, 0.0, 1.0)

    def test_offset_domain(self):
        with pytest.raises(ValueError):
            urn_limit_pmf(5, 1, -1.0, 2.0)

    def test_negative_k0(self):
        with pytest.raises(ValueError, match="k0 >= 0, got -1"):
            urn_limit_pmf(5, -1, 2.0, 2.0)

    @pytest.mark.parametrize("b", [1.5, 2.0, 3.7])
    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    @pytest.mark.parametrize("k0", [1, 2, 3])
    def test_many_k_form_is_bit_equal(self, k0, sign, b):
        a = sign * 0.75 * k0
        ks = range(10_001)  # zero below k0
        assert urn_limit_pmfs(ks, k0, a, b) == [urn_limit_pmf(k, k0, a, b) for k in ks]

    def test_many_k_form_checks_arguments(self):
        with pytest.raises(NonNormalizableError):
            urn_limit_pmfs([5], 1, 0.0, 1.0)
        with pytest.raises(ValueError):
            urn_limit_pmfs([5], 1, -1.0, 2.0)
        with pytest.raises(TypeError):
            urn_limit_pmfs([5.0], 1, 0.0, 2.0)
        assert urn_limit_pmfs([], 1, 0.0, 2.0) == []

    @pytest.mark.parametrize("b", [1.5, 2.0, 3.0])
    def test_tail_slope_is_minus_b(self, b):
        # log P(k) vs log k over k in [1e3, 1e4]: the limit law decays as
        # k**-b (equivalently 1 + rho with rho = b - 1 in the Yule-Simon
        # parameterization of the same law)
        ks = [int(round(10 ** (3 + i / 20))) for i in range(21)]
        xs = [math.log(k) for k in ks]
        ys = [math.log(urn_limit_pmf(k, 1, 0.0, b)) for k in ks]
        n = len(ks)
        xm = sum(xs) / n
        ym = sum(ys) / n
        slope = sum((x - xm) * (y - ym) for x, y in zip(xs, ys)) / sum(
            (x - xm) ** 2 for x in xs
        )
        assert slope == pytest.approx(-b, rel=0.05)

    @pytest.mark.parametrize("b", [1.5, 2.0, 3.0])
    def test_truncated_sum_matches_analytic_remainder(self, b):
        k0, a, K = 1, 0.0, 20_000
        partial = math.fsum(urn_limit_pmf(k, k0, a, b) for k in range(k0, K + 1))
        remainder = limit_pmf_tail_mass(K, k0, a, b)
        assert partial == pytest.approx(1.0 - remainder, abs=1e-10)


def test_cdf_curve_endpoints_and_csv():
    params = BetaParams(0.7556, 4.9668)
    curve = cdf_curve(params, 512)
    assert len(curve) == 512
    assert curve[0] == (0.0, 0.0)
    assert curve[-1] == (1.0, 1.0)
    text = cdf_curve_csv(params, 16)
    lines = text.splitlines()
    assert lines[0] == "# a=0.7556"
    assert lines[1] == "# b=4.9668"
    assert lines[2] == "x,cdf"
    assert len(lines) == 3 + 16


@pytest.mark.parametrize("a", [0.3, 1.0, 4.5, 30.0, 300.0])
@pytest.mark.parametrize("b", [0.3, 1.0, 4.5, 30.0, 300.0])
def test_cdf_curve_is_beta_cdf(a, b):
    params = BetaParams(a, b)
    curve = cdf_curve(params, 128)
    assert curve == [(x, beta_cdf(x, params)) for x, _ in curve]


CDF_SHAPES = (1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 2.0, 10.0, 100.0, 1e3, 1e4)


@pytest.mark.parametrize("n_points", [2, 3, 17, 512])
def test_cdf_curve_replays_reference(n_points):
    # the array continued fraction gives the one-point loop's bits at every
    # point; n_points = 2 has no interior point to run it on
    for a in CDF_SHAPES:
        for b in CDF_SHAPES:
            curve = cdf_curve(BetaParams(a, b), n_points)
            assert curve == [(x, reference_cdf(x, a, b)) for x, _ in curve], (a, b)


@pytest.mark.parametrize("n_points", [3, 17, 512])
@pytest.mark.parametrize("block", [1, 3, 7])
def test_cdf_curve_replays_reference_across_block_seams(monkeypatch, block, n_points):
    # points converge after 1 to 104 steps at these shapes; blocks of 1, 3
    # and 7 steps move the seams between blocks against those step counts
    monkeypatch.setattr(betadist, "_CF_BLOCK", block)
    test_cdf_curve_replays_reference(n_points)


# a third of these curves' points take a floor of d or c at fpmin = 0.5, and
# all of them converge; at the default 1e-300 no curve in these tests takes one
FLOOR_SHAPES = ((0.1, 5.0), (0.5, 2.0), (2.0, 2.0), (5.0, 1.0), (10.0, 0.5), (100.0, 10.0))


@pytest.mark.parametrize("block", [3, 16])
def test_cdf_curve_replays_reference_floors(monkeypatch, block):
    monkeypatch.setattr(betadist, "_CF_BLOCK", block)
    monkeypatch.setattr(betadist, "_FPMIN", 0.5)
    for a, b in FLOOR_SHAPES:
        curve = cdf_curve(BetaParams(a, b))
        assert curve == [(x, reference_cdf(x, a, b, fpmin=0.5)) for x, _ in curve], (a, b)
        assert any(y != reference_cdf(x, a, b) for x, y in curve), (a, b)


def test_floor_is_nan_aware():
    # a NaN entry must not hide a tiny one from the floor test
    v = np.array([np.nan, 1e-310, -1e-301, 2.0])
    betadist._floor(v)
    assert math.isnan(v[0])
    assert v[1:].tolist() == [1e-300, 1e-300, 2.0]


@pytest.mark.parametrize("block", [7, 16])
def test_cdf_curve_names_first_point_past_the_cap(monkeypatch, block):
    # no point near the mode converges within the cap at a = 1e10; 10000
    # steps are 1428 blocks of 7 and a last one of 4
    monkeypatch.setattr(betadist, "_CF_BLOCK", block)
    a = 1e10
    b = 256.0 * a / 255.0
    split = (a + 1.0) / (a + b + 2.0)
    for x, _ in cdf_curve(BetaParams(1.0, 1.0))[1:-1]:
        args = (a, b, x) if x < split else (b, a, 1.0 - x)
        try:
            reference_contfrac(*args)
        except AssertionError:
            break
    with pytest.raises(InternalCheckError) as ei:
        cdf_curve(BetaParams(a, b))
    assert str(ei.value) == (
        "incomplete-beta continued fraction failed to converge for "
        f"a={args[0]}, b={args[1]}, x={args[2]}"
    )


@pytest.mark.parametrize("a", [1e4, 1e5, 2.55e5, 1e6])
def test_cdf_curve_converges_at_large_shapes(a):
    # near the mode the continued fraction needs 330 iterations at a = 2.55e5
    # and 515 at a = 1e6
    b = 256.0 * a / 255.0
    curve = cdf_curve(BetaParams(a, b))
    for x, y in curve:
        assert y == pytest.approx(float(special.betainc(a, b, x)), rel=0.0, abs=1e-9), x


def test_lgamma_only_in_log_gamma_helpers():
    """ln B(a, b) has one implementation; every other log-gamma goes through it."""
    allowed = {"ln_gamma", "_ln_beta", "_lgamma_diff"}
    src = pathlib.Path(skbeta.__file__).parent
    offenders = []
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            name = getattr(node, "name", None)
            for sub in ast.walk(node):
                if name not in allowed and "lgamma" in (
                    getattr(sub, "attr", None),  # math.lgamma
                    getattr(sub, "id", None),  # lgamma, imported from math
                ):
                    offenders.append(f"{path.name}:{sub.lineno}")
    assert offenders == []


def test_beta_params_validation():
    with pytest.raises(ValueError):
        BetaParams(0.0, 1.0)
    with pytest.raises(ValueError):
        BetaParams(1.0, -2.0)
