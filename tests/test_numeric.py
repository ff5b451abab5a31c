"""The shared least-squares core and the rank-model table built on it."""

import pathlib
import re

import numpy as np
import pytest

import skbeta
from skbeta._numeric import lstsq, std_errors
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
