import dataclasses
import math
import random
import time

import numpy as np
import pytest

from skbeta import ranksize
from skbeta._numeric import separable_fit
from skbeta.errors import EmptyInputError, FitDomainError, UnsupportedVariantError
from skbeta.ranksize import (
    RankModelSpec,
    RankVariant,
    RankedSeries,
    eval_rank_model,
    fit_rank_model,
    fitted_values,
    rank_ascending,
    rank_fit_to_beta,
    result_block,
    series_csv,
)
from skbeta.synthetic import lav4_series

ATIK_PARAMS = (3.1426, 0.2884, 0.8853, 0.2649)  # kappa, gamma, xi, psi


class TestRankAscending:
    def test_sorts(self):
        assert rank_ascending([3, 1, 2]).values == (1.0, 2.0, 3.0)

    def test_idempotent(self):
        ranked = rank_ascending([1, 2, 3])
        assert rank_ascending(ranked) is ranked
        assert ranked.values == (1.0, 2.0, 3.0)

    def test_ties(self):
        assert rank_ascending([2, 2, 1]).values == (1.0, 2.0, 2.0)

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            rank_ascending([])


class TestEvalRankModel:
    def test_flat_model(self):
        spec = RankModelSpec(RankVariant.LAV4, (1.0, 0.0, 0.0, 0.7))
        assert all(eval_rank_model(spec, r, 110) == 1.0 for r in (1, 55, 110))

    def test_reference_parameter_values(self):
        spec = RankModelSpec(RankVariant.LAV4, ATIK_PARAMS)
        # frozen from a 50-digit evaluation of the same expression
        assert eval_rank_model(spec, 1, 110) == pytest.approx(
            0.81169202726199337548, rel=1e-12
        )
        assert eval_rank_model(spec, 55, 110) == pytest.approx(
            34.317037677062423533, rel=1e-12
        )
        assert eval_rank_model(spec, 110, 110) == pytest.approx(
            295.74486556528243081, rel=1e-12
        )

    def test_yule_simon_reduces_to_zipf(self):
        ys = RankModelSpec(RankVariant.YULE_SIMON, (2.0, 0.7, 0.0))
        zipf = RankModelSpec(RankVariant.ZIPF, (2.0, 0.7))
        for r in (1, 5, 50):
            assert eval_rank_model(ys, r, 50) == eval_rank_model(zipf, r, 50)

    def test_lav3_equals_lav5_at_zero_offsets(self):
        lav3 = RankModelSpec(RankVariant.LAV3, (2.0, 0.3, 0.2))
        lav5 = RankModelSpec(RankVariant.LAV5, (2.0, 0.3, 0.2, 0.0, 0.0))
        for r in range(1, 41):
            assert eval_rank_model(lav3, r, 40) == eval_rank_model(lav5, r, 40)

    def test_rank_out_of_range(self):
        spec = RankModelSpec(RankVariant.ZIPF, (1.0, 1.0))
        with pytest.raises(ValueError):
            eval_rank_model(spec, 0, 10)
        with pytest.raises(ValueError):
            eval_rank_model(spec, 11, 10)

    def test_nonpositive_base(self):
        spec = RankModelSpec(RankVariant.LAV5, (1.0, 0.5, 0.5, -2.0, 0.0))
        with pytest.raises(FitDomainError):
            eval_rank_model(spec, 1, 10)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            RankModelSpec(RankVariant.ZIPF, (0.0, 1.0))
        with pytest.raises(ValueError):
            RankModelSpec(RankVariant.ZIPF, (1.0, 1.0, 1.0))

    def test_spec_takes_a_variant_name(self):
        spec, enum = RankModelSpec("lav4", ATIK_PARAMS), RankModelSpec(RankVariant.LAV4, ATIK_PARAMS)
        assert spec.variant is RankVariant.LAV4 and spec == enum
        assert eval_rank_model(spec, 3, 10) == eval_rank_model(enum, 3, 10)
        fit = fit_rank_model(lav4_series(*ATIK_PARAMS, 30), "lav4")
        named = dataclasses.replace(fit, spec=RankModelSpec("lav4", fit.spec.params))
        assert result_block(named) == result_block(fit)
        assert rank_fit_to_beta(named) == rank_fit_to_beta(fit)
        with pytest.raises(ValueError, match="lav6"):
            RankModelSpec("lav6", (1.0, 0.5))


# parameter choices generate ascending series, consistent with rank 1 = smallest
ROUNDTRIP_CASES = [
    (RankVariant.ZIPF, (2.0, -0.7), 1e-6),
    (RankVariant.YULE_SIMON, (2.0, -0.5, -0.005), 1e-4),
    (RankVariant.LAV3, (2.0, -0.3, 0.2), 1e-4),
    (RankVariant.LAV5, (2.0, -0.3, 0.2, 0.5, 0.4), 1e-4),
    (RankVariant.LAV4, ATIK_PARAMS, 1e-4),
]


class TestFitRankModel:
    @pytest.mark.parametrize("variant,params,tol", ROUNDTRIP_CASES)
    def test_noiseless_roundtrip(self, variant, params, tol):
        spec = RankModelSpec(variant, params)
        data = [eval_rank_model(spec, r, 110) for r in range(1, 111)]
        assert data == sorted(data)
        fit = fit_rank_model(data, variant)
        for got, want in zip(fit.spec.params, params):
            assert got == pytest.approx(want, rel=tol, abs=tol)
        assert fit.r_squared >= 0.9999

    def test_reference_lav4_recovery_fast(self):
        data = lav4_series(*ATIK_PARAMS, 110)
        start = time.perf_counter()
        fit = fit_rank_model(data, "lav4")
        elapsed = time.perf_counter() - start
        for got, want in zip(fit.spec.params, ATIK_PARAMS):
            assert got == pytest.approx(want, abs=1e-4)
        assert fit.r_squared >= 0.9999
        assert elapsed < 1.0

    def test_constant_series(self):
        fit = fit_rank_model([4.2] * 30, "lav4")
        named = fit.spec.named()
        assert named["kappa"] == pytest.approx(4.2, rel=1e-10)
        assert named["gamma"] == pytest.approx(0.0, abs=1e-9)
        assert named["xi"] == pytest.approx(0.0, abs=1e-9)
        assert fit.r_squared == 1.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        base = list(rng.lognormal(1.0, 0.8, 60))
        shuffled = list(base)
        random.Random(3).shuffle(shuffled)
        assert fit_rank_model(base, "lav4") == fit_rank_model(shuffled, "lav4")

    def test_refined_sse_not_above_initializer(self):
        # the log-space start: ln y on [1, -ln(N - r + psi), ln r] at psi = 1
        rng = np.random.default_rng(17)
        noisy = np.array(lav4_series(*ATIK_PARAMS, 110)) * rng.lognormal(0, 0.05, 110)
        r = np.arange(1.0, 111.0)
        x = np.column_stack([np.ones(110), -np.log(111.0 - r), np.log(r)])
        coef = np.linalg.lstsq(x, np.log(noisy), rcond=None)[0]
        start_sse = float(np.sum((noisy - np.exp(x @ coef)) ** 2))
        fit = fit_rank_model(list(noisy), "lav4")
        assert fit.converged
        assert fit.sse <= start_sse

    def test_lav4_converges_at_tiny_psi(self):
        # From psi = 1 the fit meets its tolerance in 27 steps at SSE
        # 6.7757; a start with psi profiled on (0, 2] used all 200 steps and
        # stopped at SSE 9.2594.
        noise = np.random.default_rng(0).lognormal(0.0, 0.05, 110)
        fit = fit_rank_model(np.array(lav4_series(5.0, 0.6, 0.4, 1e-6, 110)) * noise, "lav4")
        assert fit.converged
        assert fit.sse < 7

    def test_zero_values_rejected(self):
        with pytest.raises(FitDomainError):
            fit_rank_model([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0], "lav4")

    def test_negative_values_rejected(self):
        with pytest.raises(FitDomainError):
            fit_rank_model([-1.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0], "zipf")

    def test_too_few_values(self):
        with pytest.raises(ValueError):
            fit_rank_model([1.0, 2.0, 3.0], "lav4")

    def test_stop_reasons(self, monkeypatch):
        rng = np.random.default_rng(17)
        y = np.array(lav4_series(*ATIK_PARAMS, 110)) * rng.lognormal(0, 0.05, 110)
        fit = fit_rank_model(y, "lav4")
        assert (fit.stop, fit.converged) == ("tolerance", True)
        assert 1 <= fit.iterations < 200
        flat = fit_rank_model([4.2] * 30, "lav4")
        assert (flat.stop, flat.converged) == ("tolerance", True)

        columns = ranksize._columns(RankVariant.LAV4, np.arange(1.0, 111.0), 110)
        *_, stop, iterations = separable_fit(columns, [0.0, 0.0, 1.0], y, max_iter=1)
        assert (stop, iterations) == ("max_iter", 1)

        def stuck(columns, p, y):
            jac = np.ones((y.size, len(p) + 1))
            return np.asarray(p), np.array([1.0]), np.zeros_like(y), 1.0, jac, "no descent", 7

        monkeypatch.setattr(ranksize, "separable_fit", stuck)
        failed = fit_rank_model(y, "lav4")
        assert (failed.stop, failed.iterations, failed.converged) == ("no descent", 7, False)

    def test_accepts_ranked_series(self):
        series = RankedSeries(tuple(lav4_series(*ATIK_PARAMS, 30)))
        fit = fit_rank_model(series, RankVariant.LAV4)
        assert fit.n == 30


class TestScaleFree:
    """Fits of y and c * y agree: exactly when c is a power of two."""

    BASE = np.random.default_rng(7).lognormal(1.0, 0.8, 60)

    @pytest.mark.parametrize("variant", [v.value for v in RankVariant])
    @pytest.mark.parametrize("power", [500, -500, 990, -990])
    def test_power_of_two_scale_is_exact(self, variant, power):
        unit = fit_rank_model(self.BASE, variant)
        scaled = fit_rank_model(np.ldexp(self.BASE, power), variant)
        assert scaled.spec.params[1:] == unit.spec.params[1:]
        assert scaled.std_errors[1:] == unit.std_errors[1:]
        assert scaled.r_squared == unit.r_squared
        assert (scaled.stop, scaled.iterations) == (unit.stop, unit.iterations)
        assert scaled.spec.params[0] == math.ldexp(unit.spec.params[0], power)
        assert scaled.std_errors[0] == math.ldexp(unit.std_errors[0], power)
        with np.errstate(over="ignore", under="ignore"):  # 4^990 sse: inf; 4^-990: 0.0
            assert scaled.sse == float(np.ldexp(unit.sse, 2 * power))

    # Variable projection stops once the predicted SSE decrease is at most
    # 1e-12 of the SSE, a point determined to rounding: both fits, standard
    # errors included, move by under 1e-14 between these scales.
    @pytest.mark.parametrize("variant,rel", [("zipf", 1e-12), ("lav4", 1e-12)])
    @pytest.mark.parametrize("scale", [1e-300, 1e200])
    def test_extreme_scale_matches_unit_scale(self, variant, rel, scale):
        unit = fit_rank_model(self.BASE, variant)
        scaled = fit_rank_model(self.BASE * scale, variant)
        assert scaled.spec.params[0] == pytest.approx(unit.spec.params[0] * scale, rel=rel, abs=0.0)
        assert scaled.std_errors[0] == pytest.approx(unit.std_errors[0] * scale, rel=rel, abs=0.0)
        assert scaled.spec.params[1:] == pytest.approx(unit.spec.params[1:], rel=rel)
        assert scaled.std_errors[1:] == pytest.approx(unit.std_errors[1:], rel=rel)
        assert scaled.r_squared == pytest.approx(unit.r_squared, rel=1e-12)
        assert scaled.converged


class TestRankFitToBeta:
    def test_reference_correspondence(self):
        data = lav4_series(*ATIK_PARAMS, 110)
        fit = fit_rank_model(data, "lav4")
        params = rank_fit_to_beta(fit)
        assert params.a == pytest.approx(1.8853, abs=1e-4)
        assert params.b == pytest.approx(1.2884, abs=1e-4)

    def test_second_reference_set(self):
        data = lav4_series(1.7307, 0.1692, 0.4378, 0.2812, 110)
        fit = fit_rank_model(data, "lav4")
        params = rank_fit_to_beta(fit)
        assert params.a == pytest.approx(1.4378, abs=1e-4)
        assert params.b == pytest.approx(1.1692, abs=1e-4)

    def test_flat_exponents_give_uniform(self):
        result = fit_rank_model([3.0] * 20, "lav4")
        params = rank_fit_to_beta(result)
        assert params.a == pytest.approx(1.0, abs=1e-9)
        assert params.b == pytest.approx(1.0, abs=1e-9)

    def test_other_variant_rejected(self):
        fit = fit_rank_model([float(i) for i in range(1, 30)], "zipf")
        with pytest.raises(UnsupportedVariantError):
            rank_fit_to_beta(fit)


def test_serialization():
    data = lav4_series(*ATIK_PARAMS, 40)
    fit = fit_rank_model(data, "lav4")
    block = result_block(fit)
    for key in ("kappa:", "gamma:", "xi:", "psi:", "R^2:", "beta_a:", "beta_b:",
                "stop:", "iterations:"):
        assert key in block
    csv_text = series_csv(fit, rank_ascending(data))
    lines = csv_text.strip().splitlines()
    assert lines[0] == "rank,value,fitted"
    assert len(lines) == 41
    assert len(fitted_values(fit)) == 40
