import ast
import math
import pathlib
import random

import numpy as np
import pytest

from skbeta import ksfit
from skbeta.errors import (
    FitDomainError,
    SingularDesignError,
    UndefinedHelpVariableError,
)
from skbeta.ksfit import (
    NU_BRACKET,
    curve_csv,
    fit_power,
    fit_quadratic,
    help_variable_from_pq,
    residuals_csv,
    result_block,
)
from skbeta.moments import SKPoint
from skbeta.synthetic import synthetic_sk_points


def pts(pairs):
    return [SKPoint(f"g{i}", float(s), float(k), 10) for i, (s, k) in enumerate(pairs)]


class TestFitQuadratic:
    def test_exact(self):
        r = fit_quadratic(pts([(0, 3), (1, 5), (2, 11)]))
        assert r.p == pytest.approx(2.0, abs=1e-12)
        assert r.q == pytest.approx(3.0, abs=1e-12)
        assert r.r_squared == 1.0
        assert r.nu == 2.0 and r.se_nu == 0.0
        assert len(r.residuals) == r.n_points == 3

    def test_singular_design(self):
        with pytest.raises(SingularDesignError):
            fit_quadratic(pts([(1, 2), (1, 3), (1, 4)]))

    def test_sign_flip_still_singular(self):
        # distinct S but identical S^2 spans no quadratic information
        with pytest.raises(SingularDesignError):
            fit_quadratic(pts([(-1, 2), (1, 3), (1, 4)]))

    def test_no_points(self):
        with pytest.raises(ValueError, match="^no points to fit$"):
            fit_quadratic([])

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_quadratic(pts([(0, 1), (1, 2)]))

    def test_noisy_recovery_within_three_se(self):
        points = synthetic_sk_points(n=110, p=1.05, q=0.4, noise=0.5, seed=2024)
        r = fit_quadratic(points)
        assert abs(r.p - 1.05) <= 3 * r.se_p
        assert abs(r.q - 0.4) <= 3 * r.se_q
        assert r.r_squared > 0.99

    def test_permutation_bit_identical(self):
        points = synthetic_sk_points(n=40, seed=5)
        shuffled = list(points)
        random.Random(0).shuffle(shuffled)
        assert fit_quadratic(points) == fit_quadratic(shuffled)

    def test_r_squared_nonnegative_on_noise(self):
        rng = np.random.default_rng(8)
        points = pts([(s, float(rng.normal())) for s in np.linspace(0.5, 4, 20)])
        r = fit_quadratic(points)
        assert 0.0 <= r.r_squared <= 1.0


class TestFitPower:
    def test_exact_recovery(self):
        points = pts([(s, 1.5 * s**1.9 + 0.5) for s in range(1, 11)])
        r = fit_power(points)
        assert r.nu == pytest.approx(1.9, abs=1e-6)
        assert r.p == pytest.approx(1.5, abs=1e-6)
        assert r.q == pytest.approx(0.5, abs=1e-6)

    def test_nesting_matches_quadratic(self):
        points = pts([(s, 2.0 * s**2 + 3.0) for s in (1, 2, 3, 4, 5)])
        rq = fit_quadratic(points)
        rp = fit_power(points)
        assert rp.nu == pytest.approx(2.0, abs=1e-3)
        assert rp.p == pytest.approx(rq.p, abs=1e-6)
        assert rp.q == pytest.approx(rq.q, abs=1e-6)

    def test_nonpositive_s_names_offender(self):
        points = pts([(0.0, 3.0), (1, 5), (2, 11), (3, 21)])
        with pytest.raises(FitDomainError, match="g0"):
            fit_power(points)

    def test_profiled_sse_local_optimality(self):
        points = synthetic_sk_points(n=60, nu=1.7, noise=0.3, seed=77)
        r = fit_power(points)
        s = np.array([p.s for p in r.points])
        y = np.array([p.k for p in r.points])

        def sse_at(nu):
            x = np.column_stack([s**nu, np.ones(len(s))])
            coef, *_ = np.linalg.lstsq(x, y, rcond=None)
            d = y - x @ coef
            return float(d @ d)

        assert r.sse <= sse_at(r.nu + 0.01) + 1e-9
        assert r.sse <= sse_at(r.nu - 0.01) + 1e-9

    def test_boundary_solution_warning(self):
        # data steeper than the bracket: optimum pinned at nu = 4
        points = pts([(s, 0.3 * s**5.0 + 1.0) for s in (1, 2, 3, 4, 5, 6)])
        r = fit_power(points)
        assert r.nu == pytest.approx(NU_BRACKET[1], abs=1e-5)
        assert r.warnings and "boundary" in r.warnings[0]

    def test_boundary_warning_in_the_text_block(self):
        r = fit_power(pts([(s, 0.3 * s**5.0 + 1.0) for s in (1, 2, 3, 4, 5, 6)]))
        assert result_block(r).endswith(f"\nr2_space: raw\nwarning: {r.warnings[0]}\n")

    def test_noisy_recovery_within_three_se(self):
        points = synthetic_sk_points(n=110, p=1.05, q=0.4, nu=2.0, noise=0.5, seed=2024)
        r = fit_power(points)
        assert abs(r.nu - 2.0) <= 3 * r.se_nu
        assert abs(r.p - 1.05) <= 3 * r.se_p
        assert abs(r.q - 0.4) <= 3 * r.se_q

    def test_permutation_bit_identical(self):
        points = synthetic_sk_points(n=30, seed=6)
        shuffled = list(points)
        random.Random(1).shuffle(shuffled)
        assert fit_power(points) == fit_power(shuffled)


class TestStandardErrorCalibration:
    def test_three_se_coverage_over_seeds(self):
        # classical linearized standard errors should cover the generator
        # parameters at ~99.7% for a 3-sigma window; a miscalibrated
        # covariance (wrong dof, missing sigma^2) lands far from this
        hits_p = hits_q = hits_nu = 0
        n_seeds = 40
        for seed in range(n_seeds):
            points = synthetic_sk_points(n=110, p=1.05, q=0.4, noise=0.5, seed=seed)
            rq = fit_quadratic(points)
            hits_p += abs(rq.p - 1.05) <= 3 * rq.se_p
            hits_q += abs(rq.q - 0.4) <= 3 * rq.se_q
            rp = fit_power(points)
            hits_nu += abs(rp.nu - 2.0) <= 3 * rp.se_nu
        assert hits_p >= n_seeds - 2
        assert hits_q >= n_seeds - 2
        assert hits_nu >= n_seeds - 2


class TestScaleFree:
    """Fits of K and c * K agree: exactly when c is a power of two."""

    POINTS = synthetic_sk_points(n=60, p=1.05, q=0.4, noise=0.5, seed=7)

    def scaled(self, c):
        return [SKPoint(p.group_key, p.s, p.k * c, p.n) for p in self.POINTS]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("fit", [fit_quadratic, fit_power])
    @pytest.mark.parametrize("power", [500, -500, 990, -990])
    def test_power_of_two_scale_is_exact(self, fit, power):
        unit = fit(self.POINTS)
        scaled = fit(self.scaled(math.ldexp(1.0, power)))
        assert (scaled.nu, scaled.se_nu, scaled.r_squared) == (unit.nu, unit.se_nu, unit.r_squared)
        for name in ("p", "q", "se_p", "se_q"):
            assert getattr(scaled, name) == math.ldexp(getattr(unit, name), power)
        assert scaled.residuals == tuple(np.ldexp(unit.residuals, power).tolist())
        with np.errstate(over="ignore", under="ignore"):  # 4^990 sse: inf; 4^-990: 0.0
            assert scaled.sse == float(np.ldexp(unit.sse, 2 * power))

    # K * 1e200 rounds differently from K, and the golden search places nu to
    # ~1e-9 relative, so the power fit moves by ~1e-8 between these scales.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("fit,rel", [(fit_quadratic, 1e-13), (fit_power, 1e-6)])
    @pytest.mark.parametrize("scale", [1e-300, 1e200])
    def test_extreme_scale_matches_unit_scale(self, fit, rel, scale):
        unit = fit(self.POINTS)
        scaled = fit(self.scaled(scale))
        assert scaled.nu == pytest.approx(unit.nu, rel=rel)
        assert scaled.se_nu == pytest.approx(unit.se_nu, rel=rel)
        for name in ("p", "q", "se_p", "se_q"):
            assert getattr(scaled, name) == pytest.approx(getattr(unit, name) * scale, rel=rel, abs=0.0)
        assert scaled.r_squared == pytest.approx(unit.r_squared, rel=1e-12)
        assert not scaled.warnings


class TestHelpVariableFromPQ:
    def test_vanishing_numerator(self):
        assert help_variable_from_pq(1.0, 1.0, 0.7) == 0.0

    def test_hand_value(self):
        assert help_variable_from_pq(2.0, 1.0, 1.0) == pytest.approx(2.0, rel=1e-14)

    def test_reduces_to_sk_form_at_s_zero(self):
        from skbeta.betadist import help_variable

        assert help_variable_from_pq(1.0, 1.8, 0.0) == pytest.approx(
            help_variable(0.0, 1.8), rel=1e-12
        )

    def test_zero_denominator(self):
        # (3 - 2p) S^2 + 2 (3 - q) = 0 at p = 1.5, q = 3
        with pytest.raises(UndefinedHelpVariableError):
            help_variable_from_pq(1.5, 3.0, 1.0)


def test_serialization_blocks():
    points = pts([(0, 3), (1, 5), (2, 11)])
    r = fit_quadratic(points)
    block = result_block(r)
    assert "p: 2.0" in block and "q: 3.0" in block and "R^2: 1.0" in block
    res_csv = residuals_csv(r)
    assert res_csv.splitlines()[0] == "group,s,k,fitted,residual"
    assert len(res_csv.strip().splitlines()) == 4
    cur = curve_csv(r, n_grid=10)
    assert cur.splitlines()[0] == "s,fitted_k"
    assert len(cur.strip().splitlines()) == 11


def test_one_result_constructor():
    """Both K-S fits build their result in one core."""
    tree = ast.parse(pathlib.Path(ksfit.__file__).read_text())
    calls = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "KSFitResult"
    ]
    assert len(calls) == 1, calls
