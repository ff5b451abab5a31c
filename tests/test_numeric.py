"""The shared least-squares core and the rank-model table built on it."""

import pathlib
import random
import re

import numpy as np
import pytest

import skbeta
from skbeta import moments, synthetic
from skbeta._numeric import lstsq, rescale, separable_fit, std_errors, unit_scale
from skbeta.errors import SingularDesignError
from skbeta.ksfit import fit_power
from skbeta.moments import SKPoint
from skbeta.ranksize import RankVariant, eval_rank_model, fit_rank_model, fitted_values


def _longdouble_line(u, y):
    """Centred closed-form simple regression y ~ p u + q in extended precision."""
    u = np.asarray(u, dtype=np.longdouble)
    y = np.asarray(y, dtype=np.longdouble)
    uc = u - u.mean()
    p = (uc * (y - y.mean())).sum() / (uc * uc).sum()
    return p, y.mean() - p * u.mean()


class TestLstsq:
    def test_ill_conditioned_design_matches_longdouble(self):
        s = np.linspace(0.5, 17.0, 110)
        rng = np.random.default_rng(5)
        y = 1.05 * s**4 + 0.4 + rng.normal(0.0, 0.5, s.size)
        x = np.column_stack([s**4, np.ones(s.size)])
        coef, resid, sse = lstsq(x, y)
        ref = np.array([float(v) for v in _longdouble_line(s**4, y)])
        # cond(x) ~ 3.6e4: the intercept, small against p s^4, carries
        # ~cond * eps = 4e-12 relative error in any float64 solve, so it is
        # checked through the fitted vector as a whole.
        assert abs(coef[0] - ref[0]) <= 1e-12 * abs(ref[0])
        fit_err = np.linalg.norm(x @ (coef - ref))
        assert fit_err <= 1e-12 * np.linalg.norm(x @ ref)
        assert np.array_equal(resid, y - x @ coef)
        assert sse == float(resid @ resid)

    def test_rank_deficient_gives_minimum_norm(self):
        x = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        coef, resid, sse = lstsq(x, np.array([1.0, 2.0, 3.0]))
        assert coef == pytest.approx([0.5, 0.5], abs=1e-12)
        assert sse == pytest.approx(0.0, abs=1e-24)

    def test_zero_column_gets_zero_coefficient(self):
        r = np.arange(1.0, 11.0)
        coef, _, _ = lstsq(np.column_stack([np.ones(10), r, np.zeros(10)]), 2.0 + 3.0 * r)
        assert coef == pytest.approx([2.0, 3.0, 0.0], abs=1e-12)


class TestStdErrors:
    def test_matches_inverse_normal_matrix(self):
        rng = np.random.default_rng(11)
        jac = rng.normal(size=(40, 3))
        sse = 2.5
        sigma2 = sse / (40 - 3)
        want = np.sqrt(np.diag(sigma2 * np.linalg.inv(jac.T @ jac)))
        np.testing.assert_allclose(std_errors(jac, sse), want, rtol=1e-10)

    def test_zero_column_is_finite(self):
        rng = np.random.default_rng(13)
        jac = np.column_stack([rng.normal(size=20), np.zeros(20), rng.normal(size=20)])
        ses = std_errors(jac, 1.0)
        assert np.all(np.isfinite(ses))
        assert ses[1] == 0.0

    def test_no_degrees_of_freedom_gives_zero(self):
        assert np.array_equal(std_errors(np.eye(2), 1.0), [0.0, 0.0])

    @pytest.mark.parametrize("bad", [[np.inf], [np.nan], [np.inf, np.nan]])
    def test_non_finite_entry_gives_nan_without_pinv(self, monkeypatch, bad):
        # pinv's SVD does not return on an inf entry and raises on a NaN one
        def pinv(_):
            raise AssertionError("pinv called")

        monkeypatch.setattr(np.linalg, "pinv", pinv)
        jac = np.random.default_rng(17).normal(size=(20, 3))
        jac[[7, 12][: len(bad)], [1, 2][: len(bad)]] = bad
        ses = std_errors(jac, 1.0)
        assert ses.shape == (3,) and np.isnan(ses).all()


class TestUnitScale:
    @pytest.mark.parametrize("factor", [2.0**-1000, 1e-300, 1.0, 3.0, 1e200, 2.0**1000])
    def test_largest_value_lands_in_half_to_one_exactly(self, factor):
        y = np.array([-0.3, 0.02, 1.7, -4.25]) * factor
        scaled, e = unit_scale(y)
        assert 0.5 <= np.abs(scaled).max() < 1.0
        assert rescale(scaled, 1, e) == y.tolist()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rescale_out_of_range_reads_inf_or_zero(self):
        assert rescale([0.75, 0.75, 0.75], [1, 2, -2], 600) == [0.75 * 2.0**600, np.inf, 0.0]


class TestSeparableFit:
    T = np.linspace(0.0, 4.0, 40)

    def decay(self, theta):
        e = np.exp(-theta[0] * self.T)
        return np.column_stack([e, np.ones(self.T.size)]), np.column_stack([-self.T * e, np.zeros_like(e)])[None]

    def test_recovers_exponential_decay(self):
        y = 2.0 * np.exp(-0.7 * self.T) + 0.5
        theta, coef, sse, stop, iterations = separable_fit(self.decay, [0.1], y)
        assert theta[0] == pytest.approx(0.7, rel=1e-12)
        assert coef == pytest.approx([2.0, 0.5], rel=1e-12)
        assert sse < 1e-28 and stop == "tolerance" and iterations < 20

    def test_clips_to_bounds(self):
        y = 2.0 * np.exp(-0.7 * self.T) + 0.5
        assert separable_fit(self.decay, [0.1], y, [0.0], [0.5])[0][0] == 0.5

    def test_start_outside_domain_is_value_error(self):
        with pytest.raises(ValueError, match="outside the model's domain"):
            separable_fit(lambda theta: None, [0.1], np.ones(5))

    def test_ridge_fit_converges(self):
        # the K series of tools/cli_battery.py's micro.csv; its optimum's SSE
        # is from Gauss-Newton run on for 5000 steps
        rng = random.Random(0)
        groups = {
            f"P{g:02d}": [rng.lognormvariate(10.0, 1.0) for _ in range(30 + 5 * g)]
            for g in range(12)
        }
        k = [p.k for p in moments.group_sk_points(groups).points]
        fit = fit_rank_model(k, "lav4")
        assert fit.stop == "tolerance" and fit.iterations < 200
        assert fit.sse == pytest.approx(1.0216783189672, rel=1e-9)

    @staticmethod
    def moved(unit, scaled, c):
        """Largest relative move of fitted parameters when the data is scaled by c."""
        return max(abs(b - a * (c if i == 0 else 1.0)) / abs(b) for i, (a, b) in enumerate(zip(unit, scaled)))

    @pytest.mark.parametrize("seed", range(4))
    def test_pipeline_fits_reproducible_under_rescaling(self, seed):
        """Data times 1 + 2^-40 moves every fitted parameter by <= 1e-12 relative.

        Covers lav4 on the S and K series and the power fit's nu of ``pipeline
        --synthetic``.  Series with no interior optimum, such as the K series
        of ``synthetic_sk_points``, are left out: their fits have no point that
        rounding cannot move.
        """
        c = 1.0 + 2.0**-40
        points = moments.group_sk_points(synthetic.synthetic_grouped_dataset(seed=seed)).points
        for target in ("s", "k"):
            y = np.array([getattr(p, target) for p in points])
            unit, scaled = fit_rank_model(y, "lav4"), fit_rank_model(y * c, "lav4")
            assert self.moved(unit.spec.params, scaled.spec.params, c) <= 1e-12
        bigger = [SKPoint(p.group_key, p.s, p.k * c, p.n) for p in points]
        assert fit_power(bigger).nu == pytest.approx(fit_power(points).nu, rel=1e-12)

    @pytest.mark.parametrize("variant", list(RankVariant))
    def test_rank_fits_reproducible_under_rescaling(self, variant):
        c = 1.0 + 2.0**-40
        base = np.random.default_rng(7).lognormal(1.0, 0.8, 60)  # test_ranksize's BASE
        unit, scaled = fit_rank_model(base, variant), fit_rank_model(base * c, variant)
        assert self.moved(unit.spec.params, scaled.spec.params, c) <= 1e-12


def test_fit_power_rejects_all_equal_s():
    points = [SKPoint(f"g{i}", 1.5, 3.0 + i, 10) for i in range(6)]
    with pytest.raises(SingularDesignError):
        fit_power(points)


@pytest.mark.parametrize("variant", list(RankVariant))
def test_fitted_values_match_scalar_evaluation(variant):
    rng = np.random.default_rng(23)
    values = np.sort(rng.lognormal(1.0, 0.6, 50))
    fit = fit_rank_model(values, variant)
    n = fit.n
    assert fitted_values(fit) == [eval_rank_model(fit.spec, r, n) for r in range(1, n + 1)]


def test_linalg_only_in_numeric():
    """Every solver decision of the package lives in ``_numeric``."""
    src = pathlib.Path(skbeta.__file__).parent
    offenders = [
        path.name
        for path in sorted(src.glob("*.py"))
        if path.name != "_numeric.py" and re.search(r"\blinalg\b", path.read_text())
    ]
    assert offenders == []
